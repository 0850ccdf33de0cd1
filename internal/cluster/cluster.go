// Package cluster models heterogeneous computing systems as collections of
// nodes with benchmarked sustained speeds — the paper's "marked speed"
// abstraction (Definitions 1 and 2):
//
//   - Definition 1: the marked speed of a node is a benchmarked sustained
//     speed of that node (a constant once measured).
//   - Definition 2: the marked speed of a system is the sum of the marked
//     speeds of its nodes.
//
// The package also carries the Sunwulf cluster profiles used throughout the
// paper's evaluation. The real Sunwulf (Illinois Tech SCS lab: one SunFire
// server with 4x480 MHz CPUs, 64 SunBlade nodes with 1x500 MHz CPU, 20
// SunFire V210 nodes with 2x1 GHz CPUs, 100 Mb Ethernet) is unavailable;
// the profiles here are synthetic calibrations that preserve the paper's
// heterogeneity ratios. See DESIGN.md §2 for the substitution argument.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node is one computing element of a distributed system. SpeedMflops is its
// marked speed per Definition 1 — a constant sustained rate, not a hardware
// peak. A multi-CPU physical node that contributes k CPUs to a computation
// is modeled as k single-CPU Nodes (matching the paper, which counts the
// server "with two CPUs" as double speed).
type Node struct {
	Name        string  // unique within a cluster, e.g. "hpc-40"
	Class       string  // hardware class, e.g. "SunBlade"
	SpeedMflops float64 // marked speed (Definition 1)
	MemMB       int     // memory capacity, used by the multi-parameter extension
}

// Validate reports structural problems with the node definition.
func (n Node) Validate() error {
	if n.Name == "" {
		return errors.New("cluster: node has empty name")
	}
	if n.SpeedMflops <= 0 {
		return fmt.Errorf("cluster: node %q has non-positive marked speed %g", n.Name, n.SpeedMflops)
	}
	if n.MemMB < 0 {
		return fmt.Errorf("cluster: node %q has negative memory %d", n.Name, n.MemMB)
	}
	return nil
}

// Cluster is an ordered collection of nodes participating in a computation.
// Order matters: rank i of a parallel program runs on Nodes[i].
type Cluster struct {
	Name  string
	Nodes []Node
}

// New builds a validated cluster. Node names must be unique.
func New(name string, nodes ...Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: need at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if err := n.Validate(); err != nil {
			return nil, err
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	c := &Cluster{Name: name, Nodes: append([]Node(nil), nodes...)}
	return c, nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.Nodes) }

// Signature canonicalizes the cluster's content for cache keys: name plus
// every node's class, marked speed and memory, in rank order (rank i runs
// on Nodes[i], so order matters). Two clusters share a signature iff no
// input that can change a run's outcome differs.
func (c *Cluster) Signature() string {
	var b strings.Builder
	b.WriteString(c.Name)
	for _, n := range c.Nodes {
		b.WriteByte('/')
		b.WriteString(n.Class)
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(n.SpeedMflops, 'g', -1, 64))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(n.MemMB))
	}
	return b.String()
}

// MarkedSpeed returns the system marked speed C = sum C_i (Definition 2),
// in Mflops.
func (c *Cluster) MarkedSpeed() float64 {
	var s float64
	for _, n := range c.Nodes {
		s += n.SpeedMflops
	}
	return s
}

// Speeds returns the per-node marked speeds in rank order.
func (c *Cluster) Speeds() []float64 {
	out := make([]float64, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.SpeedMflops
	}
	return out
}

// ByClass returns node counts per hardware class, for reporting.
func (c *Cluster) ByClass() map[string]int {
	m := make(map[string]int)
	for _, n := range c.Nodes {
		m[n.Class]++
	}
	return m
}

// String renders a compact description like
// "C4 (4 nodes, 247.0 Mflops: 1xServer, 3xSunBlade)".
func (c *Cluster) String() string {
	classes := c.ByClass()
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%dx%s", classes[k], k))
	}
	return fmt.Sprintf("%s (%d nodes, %.1f Mflops: %s)",
		c.Name, c.Size(), c.MarkedSpeed(), strings.Join(parts, ", "))
}

// Subset returns a new cluster consisting of the nodes at the given rank
// indices, in the given order.
func (c *Cluster) Subset(name string, ranks ...int) (*Cluster, error) {
	nodes := make([]Node, 0, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= len(c.Nodes) {
			return nil, fmt.Errorf("cluster: Subset rank %d out of range [0,%d)", r, len(c.Nodes))
		}
		nodes = append(nodes, c.Nodes[r])
	}
	return New(name, nodes...)
}

// Derate returns a copy of the cluster whose node speeds are scaled by
// scale[i] in (0,1]: the effective marked speed of a system whose nodes
// degrade at runtime (stragglers, thermal throttling). The derated
// cluster's MarkedSpeed is the effective system speed C_eff; scalability
// studies keep quoting the nominal C of the original cluster while
// executing on the derated one.
func (c *Cluster) Derate(name string, scale []float64) (*Cluster, error) {
	if len(scale) != len(c.Nodes) {
		return nil, fmt.Errorf("cluster: Derate got %d scale factors for %d nodes", len(scale), len(c.Nodes))
	}
	nodes := append([]Node(nil), c.Nodes...)
	for i, s := range scale {
		if s <= 0 || s > 1 {
			return nil, fmt.Errorf("cluster: Derate scale[%d] = %g out of (0,1]", i, s)
		}
		nodes[i].SpeedMflops *= s
	}
	return New(name, nodes...)
}

// Uniform builds a homogeneous cluster of p identical nodes — the baseline
// configuration for validating the homogeneous special case.
func Uniform(name string, p int, speedMflops float64) (*Cluster, error) {
	if p <= 0 {
		return nil, fmt.Errorf("cluster: Uniform needs p > 0, got %d", p)
	}
	nodes := make([]Node, p)
	for i := range nodes {
		nodes[i] = Node{
			Name:        fmt.Sprintf("%s-%02d", name, i),
			Class:       "Uniform",
			SpeedMflops: speedMflops,
			MemMB:       1024,
		}
	}
	return New(name, nodes...)
}
