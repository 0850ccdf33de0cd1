package nasbench

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestSuiteNamesAndFlops(t *testing.T) {
	suite := Suite()
	if len(suite) != 5 {
		t.Fatalf("suite size %d, want 5", len(suite))
	}
	seen := map[string]bool{}
	for _, k := range suite {
		if seen[k.Name()] {
			t.Errorf("duplicate kernel %s", k.Name())
		}
		seen[k.Name()] = true
		if f := k.Flops(256); f <= 0 {
			t.Errorf("%s Flops(256) = %g", k.Name(), f)
		}
		// Flops must be monotone in size.
		if k.Flops(512) <= k.Flops(128) {
			t.Errorf("%s flops not increasing with size", k.Name())
		}
	}
}

func TestKernelsRunDeterministically(t *testing.T) {
	for _, k := range Suite() {
		a := k.Run(200)
		b := k.Run(200)
		if a != b {
			t.Errorf("%s nondeterministic: %g vs %g", k.Name(), a, b)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Errorf("%s checksum %g", k.Name(), a)
		}
	}
}

func TestKernelEdgeSizes(t *testing.T) {
	for _, k := range Suite() {
		for _, size := range []int{0, 1, 2, 3} {
			got := k.Run(size)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s Run(%d) = %g", k.Name(), size, got)
			}
		}
	}
}

func TestFTPow2Rounding(t *testing.T) {
	// Size 100 rounds to 128: flops = 5*128*7.
	want := 5.0 * 128 * 7
	if got := (FT{}).Flops(100); got != want {
		t.Errorf("FT.Flops(100) = %g, want %g", got, want)
	}
	if got := (FT{}).Flops(128); got != want {
		t.Errorf("FT.Flops(128) = %g, want %g", got, want)
	}
}

func TestAffinityAveragesToOne(t *testing.T) {
	var s float64
	for _, k := range Suite() {
		s += kernelAffinity[k.Name()]
	}
	if math.Abs(s/float64(len(Suite()))-1) > 1e-12 {
		t.Errorf("affinity mean = %g, want 1", s/float64(len(Suite())))
	}
}

func TestMeasureNodeModelRecoversSpeed(t *testing.T) {
	// The averaging procedure must recover the nominal marked speed for
	// every Sunwulf node class (this is what fills Table 1).
	nodes := []cluster.Node{
		cluster.ServerNode(0),
		cluster.BladeNode(40),
		cluster.V210Node(65, 0),
	}
	for _, n := range nodes {
		ms, scores, err := MeasureNodeModel(n)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if math.Abs(ms-n.SpeedMflops) > 1e-9 {
			t.Errorf("%s: marked speed %g, want %g", n.Name, ms, n.SpeedMflops)
		}
		if len(scores) != 5 {
			t.Errorf("%s: %d scores", n.Name, len(scores))
		}
		// Kernel spread: EP above nominal, FT below.
		for _, sc := range scores {
			switch sc.Kernel {
			case "EP":
				if sc.Mflops <= n.SpeedMflops {
					t.Errorf("%s: EP %g should exceed nominal %g", n.Name, sc.Mflops, n.SpeedMflops)
				}
			case "FT":
				if sc.Mflops >= n.SpeedMflops {
					t.Errorf("%s: FT %g should be below nominal %g", n.Name, sc.Mflops, n.SpeedMflops)
				}
			}
		}
	}
}

func TestMarkedSpeedErrors(t *testing.T) {
	if _, err := MarkedSpeed(nil); err == nil {
		t.Error("empty scores accepted")
	}
	if _, err := MarkedSpeed([]Score{{Kernel: "X", Mflops: -1}}); err == nil {
		t.Error("negative score accepted")
	}
	if _, err := ModelScores(cluster.BladeNode(1), nil); err == nil {
		t.Error("empty suite accepted")
	}
}

func TestMeasureHostProducesPositiveRate(t *testing.T) {
	sc, err := MeasureHost(EP{}, 5000, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mflops <= 0 {
		t.Errorf("host Mflops = %g", sc.Mflops)
	}
	if sc.Kernel != "EP" {
		t.Errorf("kernel name %s", sc.Kernel)
	}
}

func TestMeasureHostValidation(t *testing.T) {
	if _, err := MeasureHost(EP{}, 0, time.Millisecond); err == nil {
		t.Error("size 0 accepted")
	}
}
