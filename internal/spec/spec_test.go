package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/job"
)

// goldenQuickCanonical pins the canonical encoding of the quick
// experiments spec byte for byte. The canonical bytes are content
// addresses for the persistent cache, so any drift here silently
// orphans every existing cache entry: if this test fails because the
// encoding legitimately changed, bump Version rather than relaxing it.
const goldenQuickCanonical = `{"version":1,"kind":"experiments","format":"text","engine":"live","experiments":"quick","sizes":[2,4,8],"asymSizes":[100,1000,10000],"sweepPoints":6,"geTarget":0.3,"mmTarget":0.2,"seed":20050614}`

func TestCanonicalGoldenQuick(t *testing.T) {
	rs := RunSpec{Kind: KindExperiments, Experiments: "quick", Quick: true}
	data, err := rs.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenQuickCanonical {
		t.Errorf("canonical encoding drifted:\n got %s\nwant %s", data, goldenQuickCanonical)
	}
}

// goldenJobstreamCanonical pins the fully-defaulted jobstream spec: the
// canonical three-tenant stream, every registered policy, the default
// shared width. Same stakes as the quick golden — these bytes are cache
// addresses.
const goldenJobstreamCanonical = `{"version":1,"kind":"jobstream","format":"text","engine":"live","seed":20050614,"stream":{"seed":42,"tenants":[{"name":"atlas","workload":"jacobi","n":96,"width":4,"priority":2,"jobs":4,"meanGapMS":400,"shape":1},{"name":"borealis","workload":"cg","n":64,"width":3,"priority":1,"jobs":4,"meanGapMS":500,"shape":1},{"name":"cygnus","workload":"mm","n":48,"width":6,"priority":3,"jobs":3,"meanGapMS":900,"shape":3}]},"policies":["fcfs","pack","priority","sjf"],"sharedP":16}`

func TestCanonicalGoldenJobstream(t *testing.T) {
	rs := RunSpec{Kind: KindJobstream}
	data, err := rs.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenJobstreamCanonical {
		t.Errorf("canonical encoding drifted:\n got %s\nwant %s", data, goldenJobstreamCanonical)
	}
}

func TestCanonicalEqualForEqualSpellings(t *testing.T) {
	// Different spellings of the same run must canonicalize identically —
	// that equality is what makes the encoding a cache signature.
	// Each group's first entry is the reference spelling.
	groups := [][]RunSpec{{
		{Kind: KindExperiments, Experiments: "quick", Quick: true},
		{Kind: "Experiments", Experiments: "quick", Quick: true},                   // kind case
		{Kind: KindExperiments, Format: "TEXT", Experiments: "quick", Quick: true}, // explicit default format
		{Kind: KindExperiments, Engine: "Live", Experiments: "quick", Quick: true}, // explicit default engine
		{ // Quick spelled out as the explicit ladder it denotes
			Kind: KindExperiments, Experiments: "quick",
			Sizes: []int{2, 4, 8}, AsymSizes: []int{100, 1000, 10000}, SweepPoints: 6,
			GETarget: 0.3, MMTarget: 0.2, Seed: 20050614,
		},
	}, {
		{Kind: KindScalescan, Engine: "symbolic", AsymSizes: []int{100, 1000}},
		{Kind: KindScalescan, Engine: "sym", AsymSizes: []int{100, 1000}}, // engine alias
		{Kind: KindScalescan, Engine: "SYM", AsymSizes: []int{100, 1000}}, // alias case
	}}
	for g, group := range groups {
		want, err := group[0].Canonical()
		if err != nil {
			t.Fatal(err)
		}
		wantKey, err := group[0].Key()
		if err != nil {
			t.Fatal(err)
		}
		for i, rs := range group[1:] {
			got, err := rs.Canonical()
			if err != nil {
				t.Fatalf("group %d spelling %d: %v", g, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("group %d spelling %d canonicalizes differently:\n got %s\nwant %s", g, i, got, want)
			}
			key, err := rs.Key()
			if err != nil {
				t.Fatalf("group %d spelling %d: %v", g, i, err)
			}
			if key != wantKey {
				t.Errorf("group %d spelling %d key %s != %s", g, i, key, wantKey)
			}
		}
	}
}

func TestCanonicalDoesNotMutateReceiver(t *testing.T) {
	rs := RunSpec{Kind: KindExperiments, Experiments: "quick", Quick: true}
	if _, err := rs.Canonical(); err != nil {
		t.Fatal(err)
	}
	if !rs.Quick || rs.Sizes != nil || rs.Version != 0 {
		t.Errorf("Canonical mutated its receiver: %+v", rs)
	}
}

func TestCanonicalRoundTripsThroughDecode(t *testing.T) {
	specs := []RunSpec{
		{Kind: KindExperiments, Experiments: "all", Quick: true, Format: "json", Engine: "des", Contended: true},
		{Kind: KindScalescan, Workload: "jacobi", AsymSizes: []int{100, 1000}},
		{Kind: KindFaultscan, Workload: "mm", P: 4, N: 100, Faults: &faults.Spec{Seed: 3, StragglerFrac: 0.5, StragglerFactor: 2}},
		{Kind: KindJobstream, Engine: "des", Policies: []string{"sjf", "fcfs"}, SharedP: 8},
	}
	for i, rs := range specs {
		data, err := rs.Canonical()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		decoded, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("spec %d: decode: %v", i, err)
		}
		again, err := decoded.Canonical()
		if err != nil {
			t.Fatalf("spec %d: re-canonicalize: %v", i, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("spec %d not a fixed point:\n first %s\nsecond %s", i, data, again)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"version":1,"kind":"experiments","experiments":"quick","quikc":true}`))
	if err == nil || !strings.Contains(err.Error(), "quikc") {
		t.Errorf("misspelled field accepted: %v", err)
	}
}

// Seeded schedules are instantiated while a spec is decoded, so their
// draw counts are capped: a count at the cap decodes, one above it is
// rejected by name before anything is drawn.
func TestDecodeCapsSeededDrawCounts(t *testing.T) {
	for _, c := range []struct{ field, doc string }{
		{"failures", `{"kind":"jobstream","nodeFaults":{"seed":1,"failures":%d,"meanUpMS":1,"meanDownMS":5}}`},
		{"cycles", `{"kind":"jobstream","membership":{"seed":1,"cycles":%d,"meanInMS":1,"meanOutMS":5}}`},
	} {
		if _, err := Decode(strings.NewReader(fmt.Sprintf(c.doc, cluster.MaxDraws))); err != nil {
			t.Errorf("%s at the cap (%d) rejected: %v", c.field, cluster.MaxDraws, err)
		}
		_, err := Decode(strings.NewReader(fmt.Sprintf(c.doc, cluster.MaxDraws+1)))
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s above the cap: error %v, want one naming %q", c.field, err, c.field)
		}
	}
}

func exampleLadder(t *testing.T) *cluster.LadderSpec {
	t.Helper()
	var ladder cluster.LadderSpec
	const doc = `{"ladder": [
		{"name": "C2", "nodes": [
			{"name": "n0", "class": "fast", "speedMflops": 90, "memMB": 2048},
			{"name": "n1", "class": "slow", "speedMflops": 40, "memMB": 512}]},
		{"name": "C4", "nodes": [
			{"name": "n0", "class": "fast", "speedMflops": 90, "memMB": 2048},
			{"name": "n1", "class": "fast", "speedMflops": 90, "memMB": 2048},
			{"name": "n2", "class": "slow", "speedMflops": 40, "memMB": 512},
			{"name": "n3", "class": "slow", "speedMflops": 40, "memMB": 512}]}
	]}`
	if err := json.Unmarshal([]byte(doc), &ladder); err != nil {
		t.Fatal(err)
	}
	return &ladder
}

func TestValidateRejections(t *testing.T) {
	plan := &faults.Spec{Seed: 1, StragglerFrac: 0.5, StragglerFactor: 2}
	cases := []struct {
		name string
		rs   RunSpec
		frag string // expected fragment of the error
	}{
		{"unknown kind", RunSpec{Kind: "benchmark"}, "unknown kind"},
		{"future version", RunSpec{Version: 2, Kind: KindExperiments, Experiments: "quick"}, "version 2"},
		{"bad format", RunSpec{Kind: KindExperiments, Format: "yaml", Experiments: "quick"}, "format"},
		{"bad engine", RunSpec{Kind: KindExperiments, Engine: "warp", Experiments: "quick"}, "engine"},
		{"no selector", RunSpec{Kind: KindExperiments}, "selector"},
		{"unknown experiment", RunSpec{Kind: KindExperiments, Experiments: "table9"}, `unknown experiment "table9"`},
		{"unknown group", RunSpec{Kind: KindExperiments, Experiments: "group:nope"}, `unknown group "nope"`},
		{"one-rung sizes", RunSpec{Kind: KindExperiments, Experiments: "table1", Sizes: []int{4}}, "sizes needs at least two rungs"},
		{"sizes rung below two", RunSpec{Kind: KindExperiments, Experiments: "fig1", Sizes: []int{0, 4}}, "sizes rung 0 < 2"},
		{"target out of range", RunSpec{Kind: KindExperiments, Experiments: "quick", GETarget: 1.5}, "out of (0,1)"},
		{"sweep too small", RunSpec{Kind: KindExperiments, Experiments: "quick", SweepPoints: 2}, "sweepPoints"},
		{"contended on live", RunSpec{Kind: KindExperiments, Experiments: "table1", Contended: true}, "contended needs the des engine"},
		{"contended on symbolic", RunSpec{Kind: KindExperiments, Engine: "sym", Experiments: "table1", Contended: true}, "contended needs the des engine"},
		{"experiments with workload", RunSpec{Kind: KindExperiments, Experiments: "quick", Workload: "ge"}, `"workload" does not apply`},
		{"experiments with faults", RunSpec{Kind: KindExperiments, Experiments: "quick", Faults: plan}, `"faults" does not apply`},
		{"scalescan no ladder", RunSpec{Kind: KindScalescan}, "ladder or asymSizes"},
		{"scalescan both modes", RunSpec{Kind: KindScalescan, Ladder: exampleLadder(t), AsymSizes: []int{4, 8}}, "mutually exclusive"},
		{"scalescan short ladder", RunSpec{Kind: KindScalescan, Ladder: &cluster.LadderSpec{Ladder: exampleLadder(t).Ladder[:1]}}, "at least 2 rungs"},
		{"scalescan bad workload", RunSpec{Kind: KindScalescan, Workload: "qr", AsymSizes: []int{4, 8}}, "qr"},
		{"scalescan bad target", RunSpec{Kind: KindScalescan, Target: 1.5, AsymSizes: []int{4, 8}}, "out of (0,1)"},
		{"scalescan decreasing asym", RunSpec{Kind: KindScalescan, AsymSizes: []int{8, 4}}, "increasing"},
		{"scalescan with seed", RunSpec{Kind: KindScalescan, Seed: 7, AsymSizes: []int{4, 8}}, `"seed" does not apply`},
		{"faultscan no plan", RunSpec{Kind: KindFaultscan}, "fault plan"},
		{"faultscan bad plan", RunSpec{Kind: KindFaultscan, Faults: &faults.Spec{StragglerFrac: 2}}, "straggler"},
		{"ckpt without recover", RunSpec{Kind: KindFaultscan, Faults: plan, CkptInterval: 50}, "only with recover"},
		{"negative ckpt", RunSpec{Kind: KindFaultscan, Faults: plan, Recover: true, CkptInterval: -1}, "ckptInterval"},
		{"faultscan with ladder", RunSpec{Kind: KindFaultscan, Faults: plan, Ladder: exampleLadder(t)}, `"ladder" does not apply`},
		{"faultscan with quick", RunSpec{Kind: KindFaultscan, Faults: plan, Quick: true}, `"quick" does not apply`},
		{"faultscan with stream", RunSpec{Kind: KindFaultscan, Faults: plan, Stream: &job.StreamSpec{}}, `"stream" does not apply`},
		{"experiments with policies", RunSpec{Kind: KindExperiments, Experiments: "quick", Policies: []string{"fcfs"}}, `"policies" does not apply`},
		{"jobstream with workload", RunSpec{Kind: KindJobstream, Workload: "ge"}, `"workload" does not apply`},
		{"jobstream with quick", RunSpec{Kind: KindJobstream, Quick: true}, `"quick" does not apply`},
		{"jobstream unknown policy", RunSpec{Kind: KindJobstream, Policies: []string{"random"}}, "unknown policy"},
		{"jobstream dup policy", RunSpec{Kind: KindJobstream, Policies: []string{"fcfs", "fcfs"}}, "duplicate policy"},
		{"jobstream width over cluster", RunSpec{Kind: KindJobstream, SharedP: 2}, "wants 4 nodes"},
		{"jobstream bad stream", RunSpec{Kind: KindJobstream, Stream: &job.StreamSpec{
			Tenants: []job.TenantSpec{{Name: "t", Workload: "nope", N: 48, Width: 2, Jobs: 1, MeanGapMS: 100}},
		}}, "unknown workload"},
		{"experiments with nodeFaults", RunSpec{Kind: KindExperiments, Experiments: "quick",
			NodeFaults: &cluster.HealthSpec{Events: []cluster.NodeEvent{{Node: 0, DownMS: 1}}}}, `"nodeFaults" does not apply`},
		{"faultscan with retry", RunSpec{Kind: KindFaultscan, Faults: plan,
			Retry: &job.RetrySpec{MaxRetries: 1}}, `"retry" does not apply`},
		{"scalescan with admission", RunSpec{Kind: KindScalescan, AsymSizes: []int{4, 8},
			Admission: &job.AdmissionSpec{MaxQueue: 1}}, `"admission" does not apply`},
		{"jobstream fault node out of range", RunSpec{Kind: KindJobstream,
			NodeFaults: &cluster.HealthSpec{Events: []cluster.NodeEvent{{Node: 16, DownMS: 1}}}}, "out of range"},
		{"jobstream bad retry", RunSpec{Kind: KindJobstream,
			Retry: &job.RetrySpec{MaxRetries: -1}}, "retry budget"},
		{"jobstream bad admission", RunSpec{Kind: KindJobstream,
			Admission: &job.AdmissionSpec{MaxQueue: -1}}, "queue cap"},
		{"faultscan with membership", RunSpec{Kind: KindFaultscan, Faults: plan,
			Membership: &cluster.MembershipPlan{Events: []cluster.MemberEvent{{Node: 0, AtMS: 1, Op: cluster.OpDrain}}}}, `"membership" does not apply`},
		{"experiments with autoscale", RunSpec{Kind: KindExperiments, Experiments: "quick",
			Autoscale: &job.AutoscaleSpec{TargetEs: 0.1, Band: 0.02, WindowMS: 100, MinP: 2, MaxP: 4}}, `"autoscale" does not apply`},
		{"jobstream membership node out of range", RunSpec{Kind: KindJobstream,
			Membership: &cluster.MembershipPlan{Events: []cluster.MemberEvent{{Node: 16, AtMS: 1, Op: cluster.OpDrain}}}}, "out of range"},
		{"jobstream membership double drain", RunSpec{Kind: KindJobstream,
			Membership: &cluster.MembershipPlan{Events: []cluster.MemberEvent{
				{Node: 1, AtMS: 1, Op: cluster.OpDrain}, {Node: 1, AtMS: 2, Op: cluster.OpDrain}}}}, "already drained"},
		{"jobstream autoscale over cluster", RunSpec{Kind: KindJobstream,
			Autoscale: &job.AutoscaleSpec{TargetEs: 0.1, Band: 0.02, WindowMS: 100, MinP: 2, MaxP: 32}}, "exceeds cluster size"},
		{"jobstream autoscale one rung", RunSpec{Kind: KindJobstream,
			Autoscale: &job.AutoscaleSpec{TargetEs: 0.1, Band: 0.02, WindowMS: 100, MinP: 4, MaxP: 4}}, "two-rung ladder"},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			rs := tc.rs
			if err := rs.Normalize(); err != nil {
				if !strings.Contains(err.Error(), tc.frag) {
					t.Fatalf("normalize error %q missing %q", err, tc.frag)
				}
				return
			}
			err := rs.Validate()
			if err == nil {
				t.Fatalf("accepted: %+v", rs)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q missing %q", err, tc.frag)
			}
		})
	}
}

func TestNormalizeDefaults(t *testing.T) {
	scan := RunSpec{Kind: KindScalescan, AsymSizes: []int{4, 8}}
	if err := scan.Normalize(); err != nil {
		t.Fatal(err)
	}
	if scan.Workload != "ge" || scan.Target != 0.3 || scan.Engine != "live" || scan.Format != "text" {
		t.Errorf("scalescan defaults: %+v", scan)
	}
	fault := RunSpec{Kind: KindFaultscan}
	if err := fault.Normalize(); err != nil {
		t.Fatal(err)
	}
	if fault.Workload != "ge" || fault.P != 8 || fault.N != 400 {
		t.Errorf("faultscan defaults: %+v", fault)
	}
	// CkptInterval 0 is meaningful (restart from scratch) and must
	// survive normalization under Recover.
	rec := RunSpec{Kind: KindFaultscan, Faults: &faults.Spec{Seed: 1}, Recover: true, CkptInterval: 0}
	if err := rec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	if rec.CkptInterval != 0 {
		t.Errorf("ckptInterval 0 defaulted away: %+v", rec)
	}
	js := RunSpec{Kind: KindJobstream}
	if err := js.Normalize(); err != nil {
		t.Fatal(err)
	}
	if js.Stream == nil || len(js.Stream.Tenants) != 3 || js.SharedP != 16 || js.Seed != 20050614 {
		t.Errorf("jobstream defaults: %+v", js)
	}
	if len(js.Policies) != 4 || js.Policies[0] != "fcfs" {
		t.Errorf("jobstream default policies: %v", js.Policies)
	}
	if err := js.Validate(); err != nil {
		t.Errorf("defaulted jobstream spec invalid: %v", err)
	}
}

func TestNormalizeFaultSections(t *testing.T) {
	// A zero nodeFaults/admission section means the same run as an
	// absent one and must fold away, so both spellings share one
	// canonical key (the cache address).
	zeroed := RunSpec{Kind: KindJobstream, NodeFaults: &cluster.HealthSpec{}, Admission: &job.AdmissionSpec{}}
	if err := zeroed.Normalize(); err != nil {
		t.Fatal(err)
	}
	if zeroed.NodeFaults != nil || zeroed.Admission != nil || zeroed.Retry != nil {
		t.Errorf("zero fault sections survived normalization: %+v", zeroed)
	}
	zc, err := zeroed.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(zc) != goldenJobstreamCanonical {
		t.Errorf("zero fault sections perturbed the canonical bytes:\n got %s\nwant %s", zc, goldenJobstreamCanonical)
	}

	// NodeFaults without an explicit retry policy gets the default one,
	// matching the jobstream-faults experiment.
	faulted := RunSpec{Kind: KindJobstream, NodeFaults: &cluster.HealthSpec{
		Events: []cluster.NodeEvent{{Node: 1, DownMS: 100, UpMS: 200}},
	}}
	if err := faulted.Normalize(); err != nil {
		t.Fatal(err)
	}
	if faulted.Retry == nil || *faulted.Retry != job.DefaultRetry() {
		t.Errorf("retry not defaulted under node faults: %+v", faulted.Retry)
	}
	if err := faulted.Validate(); err != nil {
		t.Fatal(err)
	}
	// An explicit zero retry policy is meaningful (no requeues, no
	// checkpoints) and must survive normalization.
	strict := RunSpec{Kind: KindJobstream, NodeFaults: &cluster.HealthSpec{
		Events: []cluster.NodeEvent{{Node: 1, DownMS: 100, UpMS: 200}},
	}, Retry: &job.RetrySpec{}}
	if err := strict.Normalize(); err != nil {
		t.Fatal(err)
	}
	if *strict.Retry != (job.RetrySpec{}) {
		t.Errorf("explicit zero retry defaulted away: %+v", strict.Retry)
	}
}

func TestNormalizeElasticSections(t *testing.T) {
	// A zero membership plan or autoscale spec means the same run as an
	// absent one and must fold away: specs without elasticity keep their
	// exact prior canonical bytes (and cache keys).
	zeroed := RunSpec{Kind: KindJobstream, Membership: &cluster.MembershipPlan{}, Autoscale: &job.AutoscaleSpec{}}
	if err := zeroed.Normalize(); err != nil {
		t.Fatal(err)
	}
	if zeroed.Membership != nil || zeroed.Autoscale != nil {
		t.Errorf("zero elastic sections survived normalization: %+v", zeroed)
	}
	zc, err := zeroed.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(zc) != goldenJobstreamCanonical {
		t.Errorf("zero elastic sections perturbed the canonical bytes:\n got %s\nwant %s", zc, goldenJobstreamCanonical)
	}

	// Non-zero sections survive, validate against the shared width, and
	// round-trip through Decode as a fixed point.
	elastic := RunSpec{Kind: KindJobstream, Engine: "des",
		Membership: &cluster.MembershipPlan{Events: []cluster.MemberEvent{
			{Node: 1, AtMS: 100, Op: cluster.OpDrain},
			{Node: 1, AtMS: 400, Op: cluster.OpJoin},
		}},
		Autoscale: &job.AutoscaleSpec{TargetEs: 0.1, Band: 0.02, WindowMS: 200, MinP: 4, MaxP: 8, StartP: 6},
	}
	data, err := elastic.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	again, err := decoded.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("elastic spec not a fixed point:\n first %s\nsecond %s", data, again)
	}
	if decoded.Membership == nil || decoded.Autoscale == nil {
		t.Errorf("elastic sections lost in decode: %+v", decoded)
	}
}
