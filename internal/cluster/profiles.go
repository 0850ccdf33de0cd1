package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// Synthetic Sunwulf calibration.
//
// The paper's Table 1 reports the NPB-measured marked speed of each node
// class but the scanned values are not recoverable from the text; what is
// recoverable is the hardware inventory and therefore the speed *ratios*:
//
//   - SunBlade compute node: 1x500 MHz UltraSPARC-IIe, 128 MB
//   - SunFire server node:   4x480 MHz (a single CPU is slightly slower
//     than a SunBlade CPU)
//   - SunFire V210 node:     2x1 GHz UltraSPARC-IIIi, 2 GB (one CPU is
//     roughly twice a SunBlade)
//
// The constants below preserve those ratios at plausible NPB-class
// sustained rates for the era. EXPERIMENTS.md compares reproduced numbers
// by shape, never by absolute Mflops.
const (
	// ServerCPUMflops is the marked speed of ONE server CPU (480 MHz).
	ServerCPUMflops = 37.2
	// SunBladeMflops is the marked speed of a SunBlade node (1x500 MHz).
	SunBladeMflops = 42.1
	// V210CPUMflops is the marked speed of ONE SunFire V210 CPU (1 GHz).
	V210CPUMflops = 89.5
)

// The Sunwulf node classes, unnamed.
var (
	serverCPU = Node{Class: "Server", SpeedMflops: ServerCPUMflops, MemMB: 4096}
	blade     = Node{Class: "SunBlade", SpeedMflops: SunBladeMflops, MemMB: 128}
	v210CPU   = Node{Class: "SunFireV210", SpeedMflops: V210CPUMflops, MemMB: 2048}
)

func named(n Node, name string) Node {
	n.Name = name
	return n
}

// ServerNode returns one CPU of the Sunwulf SunFire server as a Node.
// The paper's experiments use the server "with two CPUs", i.e. two such
// nodes colocated.
func ServerNode(cpu int) Node { return named(serverCPU, fmt.Sprintf("sunwulf-cpu%d", cpu)) }

// BladeNode returns SunBlade compute node hpc-<id>.
func BladeNode(id int) Node { return named(blade, fmt.Sprintf("hpc-%d", id)) }

// V210Node returns one CPU of SunFire V210 node hpc-<id> (ids 65-84 in the
// real cluster).
func V210Node(id, cpu int) Node { return named(v210CPU, fmt.Sprintf("hpc-%d-cpu%d", id, cpu)) }

// nodeRun is count consecutive nodes of one class, named
// prefix<first+i>suffix, as ServerNode, BladeNode and V210Node name them.
type nodeRun struct {
	class          Node
	prefix, suffix string
	first, count   int
}

// The node runs of the paper configurations: server CPUs sunwulf-cpu0…,
// SunBlades hpc-40…, and CPU 0 of the V210s hpc-65-cpu0….
func serverCPUs(count int) nodeRun { return nodeRun{serverCPU, "sunwulf-cpu", "", 0, count} }
func blades(count int) nodeRun     { return nodeRun{blade, "hpc-", "", 40, count} }
func v210s(count int) nodeRun      { return nodeRun{v210CPU, "hpc-", "-cpu0", 65, count} }

// ladder builds a paper configuration from runs of numbered nodes. Every
// name is a substring of one string, so the names of p nodes cost one
// allocation. They are unique by construction (ids are distinct within a
// run, and no two runs share a name form), so ladder skips New's copy
// and duplicate-name map.
func ladder(name string, runs ...nodeRun) *Cluster {
	var digits [20]byte
	total, size := 0, 0
	for _, r := range runs {
		total += r.count
		widest := len(strconv.AppendInt(digits[:0], int64(r.first+r.count-1), 10))
		size += r.count * (len(r.prefix) + widest + len(r.suffix))
	}
	var names strings.Builder
	names.Grow(size)
	nodes := make([]Node, 0, total)
	for _, r := range runs {
		for i := 0; i < r.count; i++ {
			start := names.Len()
			names.WriteString(r.prefix)
			names.Write(strconv.AppendInt(digits[:0], int64(r.first+i), 10))
			names.WriteString(r.suffix)
			// A Builder only appends, so every earlier String stays valid.
			nodes = append(nodes, named(r.class, names.String()[start:]))
		}
	}
	return &Cluster{Name: name, Nodes: nodes}
}

// GEConfig builds the paper's Gaussian-elimination experiment configuration
// with p nodes (§4.4.1): the server node with two CPUs plus SunBlade compute
// nodes. The paper's "2 nodes" case is one SunBlade + the server with two
// CPUs; larger cases are "one node is server node and the rest nodes are
// SunBlade compute nodes". We model the dual-CPU server as two rank-holding
// CPU nodes, so the marked speed matches C_2 = 2*C_server + C_blade exactly
// as the paper computes it.
//
// Valid p: 2, 4, 8, 16, 32.
func GEConfig(p int) (*Cluster, error) {
	if p < 2 {
		return nil, fmt.Errorf("cluster: GEConfig needs p >= 2, got %d", p)
	}
	return ladder("C"+strconv.Itoa(p), serverCPUs(2), blades(p-1)), nil
}

// MMConfig builds the paper's matrix-multiplication experiment configuration
// with p nodes (§4.4.2): "half nodes are SunBlade compute nodes and the
// other half nodes are SunFire V210 nodes except one node is server node".
// For example p=8 is one server node, three SunBlades and four V210s.
func MMConfig(p int) (*Cluster, error) {
	if p < 2 {
		return nil, fmt.Errorf("cluster: MMConfig needs p >= 2, got %d", p)
	}
	half := p / 2
	// The server replaces one blade-side slot.
	return ladder("C"+strconv.Itoa(p)+"'", serverCPUs(1), blades(p-half-1), v210s(half)), nil
}

// PaperSizes is the system-size ladder used in every experiment chain.
var PaperSizes = []int{2, 4, 8, 16, 32}
