package faults

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

func testCluster(t *testing.T, speeds ...float64) *cluster.Cluster {
	t.Helper()
	nodes := make([]cluster.Node, len(speeds))
	for i, s := range speeds {
		nodes[i] = cluster.Node{Name: string(rune('a' + i)), Class: "T", SpeedMflops: s, MemMB: 128}
	}
	cl, err := cluster.New("test", nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testModel(t *testing.T) simnet.CostModel {
	t.Helper()
	m, err := simnet.NewParamModel("test", simnet.Sunwulf100())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Stragglers: []Straggler{{Rank: 5, Factor: 2}}},                       // rank out of range
		{Stragglers: []Straggler{{Rank: 0, Factor: 0.5}}},                     // factor < 1
		{Stragglers: []Straggler{{Rank: 0, Factor: 2}, {Rank: 0, Factor: 3}}}, // duplicate
		{LatencyFactor: 0.5},
		{BandwidthFactor: 1.5},
		{DropProb: MaxDropProb + 0.01},
		{DropProb: math.NaN()},
		{RetryTimeoutMS: -1},
		{MaxRetries: -1},
		{Crashes: []Crash{{Rank: 0, AtMS: -1}}},
		{Crashes: []Crash{{Rank: 0, AtMS: 1}, {Rank: 1, AtMS: 1}, {Rank: 2, AtMS: 1}}}, // all ranks
	}
	for i, p := range bad {
		if err := p.Validate(3); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
	good := Plan{
		Seed:            1,
		Stragglers:      []Straggler{{Rank: 1, Factor: 2}},
		LatencyFactor:   1.5,
		BandwidthFactor: 0.7,
		DropProb:        0.01,
		Crashes:         []Crash{{Rank: 2, AtMS: 100}},
	}
	if err := good.Validate(3); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
	if good.IsZero() {
		t.Error("non-trivial plan reported as zero")
	}
	if !(Plan{Seed: 9}).IsZero() {
		t.Error("seed-only plan not zero")
	}
}

func TestPlanApply(t *testing.T) {
	cl := testCluster(t, 100, 200, 300)
	m := testModel(t)
	p := Plan{
		Seed:            3,
		Stragglers:      []Straggler{{Rank: 1, Factor: 4}},
		LatencyFactor:   2,
		BandwidthFactor: 0.5,
		DropProb:        0.1,
	}
	dcl, dm, inj, err := p.Apply(cl, m)
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil {
		t.Fatal("nil injector")
	}
	wantSpeeds := []float64{100, 50, 300}
	for i, s := range dcl.Speeds() {
		if s != wantSpeeds[i] {
			t.Errorf("derated speed[%d] = %g, want %g", i, s, wantSpeeds[i])
		}
	}
	if cl.Speeds()[1] != 200 {
		t.Error("Apply mutated the input cluster")
	}
	if dm.TransferTime(8000) <= m.TransferTime(8000) {
		t.Error("degraded model no slower than nominal")
	}
	// Inert plan: same cluster and model come back unchanged.
	icl, im, iinj, err := Plan{Seed: 5}.Apply(cl, m)
	if err != nil {
		t.Fatal(err)
	}
	if icl != cl || im != m {
		t.Error("zero plan did not pass inputs through")
	}
	if iinj.MaxSendAttempts() != DefaultMaxRetries+1 {
		t.Errorf("inert injector attempts = %d, want %d", iinj.MaxSendAttempts(), DefaultMaxRetries+1)
	}
}

func TestInjectorDropsAreSeededAndPlausible(t *testing.T) {
	inj := (Plan{Seed: 42, DropProb: 0.25}).Injector()
	again := (Plan{Seed: 42, DropProb: 0.25}).Injector()
	other := (Plan{Seed: 43, DropProb: 0.25}).Injector()
	const n = 20000
	drops, diff := 0, 0
	for seq := 0; seq < n; seq++ {
		d := inj.DropSend(0, 1, seq)
		if d {
			drops++
		}
		if d != again.DropSend(0, 1, seq) {
			t.Fatalf("same seed disagrees at seq %d", seq)
		}
		if d != other.DropSend(0, 1, seq) {
			diff++
		}
	}
	rate := float64(drops) / n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("empirical drop rate %.4f far from 0.25", rate)
	}
	if diff == 0 {
		t.Error("different seeds produced identical drop streams")
	}
	// Directed pairs draw independent streams.
	same := 0
	for seq := 0; seq < n; seq++ {
		if inj.DropSend(0, 1, seq) == inj.DropSend(1, 0, seq) {
			same++
		}
	}
	if same == n {
		t.Error("reverse link shares the forward link's drop stream")
	}
}

func TestInjectorRetryBackoff(t *testing.T) {
	inj := (Plan{RetryTimeoutMS: 2}).Injector()
	for k := 0; k < 5; k++ {
		want := 2 * float64(int(1)<<k)
		if got := inj.RetryDelayMS(k); got != want {
			t.Errorf("RetryDelayMS(%d) = %g, want %g", k, got, want)
		}
	}
	if inj.RetryDelayMS(-3) != 2 {
		t.Error("negative failed count not clamped")
	}
	if v := inj.RetryDelayMS(1000); math.IsInf(v, 0) || v <= 0 {
		t.Errorf("huge failed count gave %g", v)
	}
	if (Plan{}).Injector().RetryDelayMS(0) != DefaultRetryTimeoutMS {
		t.Error("default retry timeout not applied")
	}
}

func TestInjectorCrashTimes(t *testing.T) {
	inj := (Plan{Crashes: []Crash{{Rank: 2, AtMS: 7.5}}}).Injector()
	if at, ok := inj.CrashTimeMS(2); !ok || at != 7.5 {
		t.Errorf("CrashTimeMS(2) = %g,%v", at, ok)
	}
	if _, ok := inj.CrashTimeMS(0); ok {
		t.Error("rank 0 reported as crashing")
	}
}

func TestSpecInstantiateDeterministic(t *testing.T) {
	s := Spec{Seed: 11, StragglerFrac: 0.5, StragglerFactor: 3, DropProb: 0.05,
		Crashes: []CrashSpec{{Rank: 1, AtMS: 9}, {Rank: 40, AtMS: 5}}}
	p1, err := s.Instantiate(8)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Instantiate(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Stragglers) != 4 {
		t.Fatalf("want 4 stragglers of 8 ranks, got %d", len(p1.Stragglers))
	}
	for i := range p1.Stragglers {
		if p1.Stragglers[i] != p2.Stragglers[i] {
			t.Fatal("same spec instantiated different straggler sets")
		}
		if i > 0 && p1.Stragglers[i].Rank <= p1.Stragglers[i-1].Rank {
			t.Error("straggler ranks not strictly increasing")
		}
	}
	if len(p1.Crashes) != 1 || p1.Crashes[0].Rank != 1 {
		t.Errorf("out-of-range crash not dropped: %+v", p1.Crashes)
	}
	o, err := Spec{Seed: 12, StragglerFrac: 0.5, StragglerFactor: 3}.Instantiate(8)
	if err != nil {
		t.Fatal(err)
	}
	sameRanks := true
	for i := range o.Stragglers {
		if i >= len(p1.Stragglers) || o.Stragglers[i].Rank != p1.Stragglers[i].Rank {
			sameRanks = false
		}
	}
	if sameRanks {
		t.Log("note: different seeds picked identical straggler ranks (possible but unlikely)")
	}
}

func TestSpecValidateCrashOrdering(t *testing.T) {
	cases := []struct {
		name    string
		crashes []CrashSpec
		wantErr string // substring, "" = valid
	}{
		{"distinct ranks", []CrashSpec{{Rank: 0, AtMS: 1}, {Rank: 1, AtMS: 1}}, ""},
		{"same rank increasing", []CrashSpec{{Rank: 1, AtMS: 3}, {Rank: 1, AtMS: 5}}, ""},
		{"duplicate entry", []CrashSpec{{Rank: 1, AtMS: 5}, {Rank: 1, AtMS: 5}}, "duplicate crash entry"},
		{"decreasing times", []CrashSpec{{Rank: 1, AtMS: 5}, {Rank: 1, AtMS: 3}}, "increasing time order"},
		{"interleaved decreasing", []CrashSpec{{Rank: 1, AtMS: 5}, {Rank: 0, AtMS: 9}, {Rank: 1, AtMS: 5}}, "duplicate crash entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Spec{Crashes: tc.crashes}.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid crash list rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestSpecInstantiateKeepsFirstCrashPerRank(t *testing.T) {
	s := Spec{Crashes: []CrashSpec{{Rank: 1, AtMS: 3}, {Rank: 1, AtMS: 5}, {Rank: 2, AtMS: 4}}}
	plan, err := s.Instantiate(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Crash{{Rank: 1, AtMS: 3}, {Rank: 2, AtMS: 4}}
	if len(plan.Crashes) != len(want) {
		t.Fatalf("plan crashes %+v, want %+v", plan.Crashes, want)
	}
	for i := range want {
		if plan.Crashes[i] != want[i] {
			t.Fatalf("plan crashes %+v, want %+v", plan.Crashes, want)
		}
	}
}

func TestIntensityKnob(t *testing.T) {
	z, err := Intensity(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl, err := z.Instantiate(8); err != nil || !pl.IsZero() {
		t.Errorf("Intensity(...,0) not fault-free: %+v (%v)", z, err)
	}
	prev := 0.0
	for _, x := range []float64{0.25, 0.5, 1} {
		s, err := Intensity(1, x)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Intensity(%g) invalid: %v", x, err)
		}
		if s.StragglerFactor <= prev {
			t.Errorf("straggler factor not increasing at x=%g", x)
		}
		prev = s.StragglerFactor
		if _, err := s.Instantiate(8); err != nil {
			t.Errorf("Intensity(%g) does not instantiate: %v", x, err)
		}
	}
	if _, err := Intensity(1, 1.5); err == nil {
		t.Error("intensity > 1 accepted")
	}
	if _, err := Intensity(1, math.NaN()); err == nil {
		t.Error("NaN intensity accepted")
	}
}

func TestParseSpecAndExample(t *testing.T) {
	s, err := ParseSpec([]byte(ExampleSpec))
	if err != nil {
		t.Fatalf("ExampleSpec does not parse: %v", err)
	}
	if s.StragglerFrac != 0.25 || s.DropProb != 0.01 {
		t.Errorf("ExampleSpec fields wrong: %+v", s)
	}
	if _, err := ParseSpec([]byte(`{"dropProb": 7}`)); err == nil {
		t.Error("out-of-range dropProb accepted")
	}
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Seed: 1, Stragglers: []Straggler{{Rank: 0, Factor: 2}},
		Crashes: []Crash{{Rank: 3, AtMS: 5}, {Rank: 1, AtMS: 2}}}
	s := p.String()
	for _, want := range []string{"1 stragglers", "crashes [1 3]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
