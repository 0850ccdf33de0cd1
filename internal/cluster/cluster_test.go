package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestNodeValidate(t *testing.T) {
	good := Node{Name: "n0", Class: "X", SpeedMflops: 10, MemMB: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid node rejected: %v", err)
	}
	cases := []Node{
		{Name: "", SpeedMflops: 10},
		{Name: "n", SpeedMflops: 0},
		{Name: "n", SpeedMflops: -3},
		{Name: "n", SpeedMflops: 5, MemMB: -1},
	}
	for i, n := range cases {
		if err := n.Validate(); err == nil {
			t.Errorf("case %d: invalid node accepted: %+v", i, n)
		}
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := New("empty"); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := New("dup", Node{Name: "a", SpeedMflops: 1}, Node{Name: "a", SpeedMflops: 2}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := New("bad", Node{Name: "a", SpeedMflops: -1}); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestMarkedSpeedSum(t *testing.T) {
	c, err := New("c",
		Node{Name: "a", SpeedMflops: 37.2},
		Node{Name: "b", SpeedMflops: 42.1},
		Node{Name: "c", SpeedMflops: 89.5},
		Node{Name: "d", SpeedMflops: 89.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Definition 2: paper example = 37.2+42.1+2*89.5 style sum.
	want := 37.2 + 42.1 + 2*89.5
	if got := c.MarkedSpeed(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MarkedSpeed = %g, want %g", got, want)
	}
	speeds := c.Speeds()
	if len(speeds) != 4 || speeds[2] != 89.5 {
		t.Errorf("Speeds = %v", speeds)
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform("u", 0, 42); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestSubset(t *testing.T) {
	c, _ := Uniform("u", 4, 10)
	s, err := c.Subset("s", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 || s.Nodes[0].Name != "u-03" || s.Nodes[1].Name != "u-01" {
		t.Errorf("Subset = %+v", s.Nodes)
	}
	if _, err := c.Subset("bad", 7); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := c.Subset("bad", 2, 0, 2); err == nil {
		t.Error("repeated rank accepted")
	}
	if _, err := c.Subset("bad"); err == nil {
		t.Error("empty rank list accepted")
	}
}

// oldGEConfig and oldMMConfig are the reference constructions: the
// paper configurations built node by node through New.
func oldGEConfig(p int) (*Cluster, error) {
	nodes := []Node{ServerNode(0), ServerNode(1)}
	for i := 0; i < p-1; i++ {
		nodes = append(nodes, BladeNode(40+i))
	}
	return New(fmt.Sprintf("C%d", p), nodes...)
}

func oldMMConfig(p int) (*Cluster, error) {
	half := p / 2
	nodes := []Node{ServerNode(0)}
	for i := 0; i < p-half-1; i++ {
		nodes = append(nodes, BladeNode(40+i))
	}
	for i := 0; i < half; i++ {
		nodes = append(nodes, V210Node(65+i, 0))
	}
	return New(fmt.Sprintf("C%d'", p), nodes...)
}

// TestLaddersMatchNodeByNodeBuild: GEConfig and MMConfig skip New, so
// each ladder must equal the node-by-node construction through New, and
// New must accept it.
func TestLaddersMatchNodeByNodeBuild(t *testing.T) {
	var sizes []int
	for p := 2; p <= 130; p++ {
		sizes = append(sizes, p)
	}
	sizes = append(sizes, 1000, 100000)
	for _, build := range []struct {
		name     string
		got, old func(int) (*Cluster, error)
	}{{"GEConfig", GEConfig, oldGEConfig}, {"MMConfig", MMConfig, oldMMConfig}} {
		for _, p := range sizes {
			got, err := build.got(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := build.old(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s(%d) differs from the node-by-node build", build.name, p)
			}
			if _, err := New(got.Name, got.Nodes...); err != nil {
				t.Fatalf("New refuses %s(%d): %v", build.name, p, err)
			}
		}
	}
}

// TestLadderAllocations bounds a 10^6-rank paper configuration: one
// node array and one string for all the names, not two allocations per
// node.
func TestLadderAllocations(t *testing.T) {
	for _, build := range []struct {
		name string
		fn   func(int) (*Cluster, error)
	}{{"GEConfig", GEConfig}, {"MMConfig", MMConfig}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cl, err := build.fn(1_000_000)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Size() < 1_000_000 {
			t.Fatalf("%s(10^6) has %d nodes", build.name, cl.Size())
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if allocs >= 100 || bytes >= 100<<20 {
			t.Errorf("%s(10^6) made %d allocations of %d bytes in all, want under 100 and under 100 MB",
				build.name, allocs, bytes)
		}
	}
}

func TestGEConfigMatchesPaperStructure(t *testing.T) {
	c2, err := GEConfig(2)
	if err != nil {
		t.Fatal(err)
	}
	// "2 nodes" = server with two CPUs + one SunBlade = 3 rank slots.
	if c2.Size() != 3 {
		t.Errorf("GEConfig(2) rank slots = %d, want 3", c2.Size())
	}
	want := 2*ServerCPUMflops + SunBladeMflops
	if math.Abs(c2.MarkedSpeed()-want) > 1e-9 {
		t.Errorf("C2 = %g, want %g", c2.MarkedSpeed(), want)
	}
	classes := c2.ByClass()
	if classes["Server"] != 2 || classes["SunBlade"] != 1 {
		t.Errorf("C2 classes = %v", classes)
	}

	c8, err := GEConfig(8)
	if err != nil {
		t.Fatal(err)
	}
	classes = c8.ByClass()
	if classes["Server"] != 2 || classes["SunBlade"] != 7 {
		t.Errorf("C8 classes = %v", classes)
	}
	// Marked speed strictly increases along the paper ladder.
	prev := 0.0
	for _, p := range PaperSizes {
		c, err := GEConfig(p)
		if err != nil {
			t.Fatal(err)
		}
		if c.MarkedSpeed() <= prev {
			t.Errorf("GE chain speed not increasing at p=%d", p)
		}
		prev = c.MarkedSpeed()
	}
}

func TestMMConfigMatchesPaperStructure(t *testing.T) {
	// Paper: p=8 is one server, three SunBlades, four V210s.
	c8, err := MMConfig(8)
	if err != nil {
		t.Fatal(err)
	}
	classes := c8.ByClass()
	if classes["Server"] != 1 || classes["SunBlade"] != 3 || classes["SunFireV210"] != 4 {
		t.Errorf("MMConfig(8) classes = %v", classes)
	}
	want := ServerCPUMflops + 3*SunBladeMflops + 4*V210CPUMflops
	if math.Abs(c8.MarkedSpeed()-want) > 1e-9 {
		t.Errorf("C8' = %g, want %g", c8.MarkedSpeed(), want)
	}
	for _, p := range PaperSizes {
		c, err := MMConfig(p)
		if err != nil {
			t.Fatal(err)
		}
		if c.Size() != p {
			t.Errorf("MM chain size = %d, want %d", c.Size(), p)
		}
	}
	if _, err := MMConfig(1); err == nil {
		t.Error("MMConfig(1) accepted")
	}
	if _, err := GEConfig(1); err == nil {
		t.Error("GEConfig(1) accepted")
	}
}

func TestClusterString(t *testing.T) {
	c, _ := GEConfig(4)
	s := c.String()
	for _, frag := range []string{"C4", "Server", "SunBlade", "nodes"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// Property: marked speed of a subset never exceeds that of the whole, and
// subsets preserve per-rank speeds.
func TestSubsetSpeedQuick(t *testing.T) {
	f := func(rawRanks []uint8) bool {
		c, err := GEConfig(8)
		if err != nil {
			return false
		}
		if len(rawRanks) == 0 {
			return true
		}
		ranks := make([]int, 0, len(rawRanks))
		for _, r := range rawRanks {
			ranks = append(ranks, int(r)%c.Size())
		}
		// Dedup to satisfy unique-name constraint.
		seen := map[int]bool{}
		uniq := ranks[:0]
		for _, r := range ranks {
			if !seen[r] {
				seen[r] = true
				uniq = append(uniq, r)
			}
		}
		s, err := c.Subset("s", uniq...)
		if err != nil {
			return false
		}
		if s.MarkedSpeed() > c.MarkedSpeed()+1e-9 {
			return false
		}
		for i, r := range uniq {
			if s.Nodes[i].SpeedMflops != c.Nodes[r].SpeedMflops {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: derating scales the marked speed to Σ scale_i·C_i — never
// above nominal — and leaves the source cluster untouched.
func TestDerateQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		c, err := GEConfig(8)
		if err != nil {
			return false
		}
		scale := make([]float64, c.Size())
		for i := range scale {
			scale[i] = 1
			if i < len(raw) {
				scale[i] = (float64(raw[i]%100) + 1) / 100
			}
		}
		d, err := c.Derate("derated", scale)
		if err != nil {
			return false
		}
		var want float64
		for i, n := range c.Nodes {
			want += n.SpeedMflops * scale[i]
		}
		if math.Abs(d.MarkedSpeed()-want) > 1e-9*want {
			return false
		}
		if d.MarkedSpeed() > c.MarkedSpeed()+1e-9 {
			return false
		}
		// The source cluster must keep its nominal speeds.
		fresh, err := GEConfig(8)
		if err != nil {
			return false
		}
		for i := range c.Nodes {
			if c.Nodes[i].SpeedMflops != fresh.Nodes[i].SpeedMflops {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDerateRejectsBadScales(t *testing.T) {
	c, err := GEConfig(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Derate("d", []float64{1, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := c.Derate("d", []float64{1, 1, 0, 1}); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := c.Derate("d", []float64{1, 1, 1.5, 1}); err == nil {
		t.Error("scale > 1 accepted")
	}
}
