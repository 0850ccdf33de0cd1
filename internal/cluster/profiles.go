package cluster

import "fmt"

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

// ServerNode returns one CPU of the Sunwulf SunFire server as a Node.
// The paper's experiments use the server "with two CPUs", i.e. two such
// nodes colocated; use ServerCPUs for that.
func ServerNode(cpu int) Node {
	return Node{
		Name:        fmt.Sprintf("sunwulf-cpu%d", cpu),
		Class:       "Server",
		SpeedMflops: ServerCPUMflops,
		MemMB:       4096,
	}
}

// ServerCPUs returns n CPUs of the server node as n Nodes.
func ServerCPUs(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = ServerNode(i)
	}
	return out
}

// BladeNode returns SunBlade compute node hpc-<id>.
func BladeNode(id int) Node {
	return Node{
		Name:        fmt.Sprintf("hpc-%d", id),
		Class:       "SunBlade",
		SpeedMflops: SunBladeMflops,
		MemMB:       128,
	}
}

// V210Node returns one CPU of SunFire V210 node hpc-<id> (ids 65-84 in the
// real cluster).
func V210Node(id, cpu int) Node {
	return Node{
		Name:        fmt.Sprintf("hpc-%d-cpu%d", id, cpu),
		Class:       "SunFireV210",
		SpeedMflops: V210CPUMflops,
		MemMB:       2048,
	}
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
	nodes := ServerCPUs(2)
	for i := 0; i < p-1; i++ {
		nodes = append(nodes, BladeNode(40+i))
	}
	return New(fmt.Sprintf("C%d", p), nodes...)
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
	blades := p - half - 1 // server replaces one blade-side slot
	nodes := []Node{ServerNode(0)}
	for i := 0; i < blades; i++ {
		nodes = append(nodes, BladeNode(40+i))
	}
	for i := 0; i < half; i++ {
		nodes = append(nodes, V210Node(65+i, 0))
	}
	return New(fmt.Sprintf("C%d'", p), nodes...)
}

// PaperSizes is the system-size ladder used in every experiment chain.
var PaperSizes = []int{2, 4, 8, 16, 32}
