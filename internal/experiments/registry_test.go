package experiments

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestRegistryOrderAndGroups(t *testing.T) {
	ids := IDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	// The canonical order is kept equal to the historical sorted order so
	// pre-registry consumers see identical batch output.
	if !sort.StringsAreSorted(ids) {
		t.Errorf("registration order is not the historical sorted order: %v", ids)
	}
	all := All()
	if len(all) != len(ids) {
		t.Fatalf("All() has %d entries, IDs() %d", len(all), len(ids))
	}
	for i, e := range all {
		if e.ID != ids[i] {
			t.Errorf("All()[%d] = %s, IDs()[%d] = %s", i, e.ID, i, ids[i])
		}
		if e.About == "" || e.Group == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration %+v", e.ID, e)
		}
	}
	// Every group is non-empty and every experiment is in its group slice.
	total := 0
	for _, g := range Groups() {
		exps := ByGroup(g)
		if len(exps) == 0 {
			t.Errorf("group %s empty", g)
		}
		for _, e := range exps {
			if e.Group != g {
				t.Errorf("%s filed under %s but has group %s", e.ID, g, e.Group)
			}
		}
		total += len(exps)
	}
	if total != len(all) {
		t.Errorf("groups cover %d experiments, registry has %d", total, len(all))
	}
}

func TestRegistryPaperGroupComplete(t *testing.T) {
	want := []string{"compare", "fig1", "fig2", "table1", "table2", "table3", "table4", "table5", "table6", "table7"}
	var got []string
	for _, e := range ByGroup(GroupPaper) {
		got = append(got, e.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("paper group = %v, want %v", got, want)
	}
}

func TestQuickFlagMatchesAnalyticExperiments(t *testing.T) {
	quick := map[string]bool{}
	for _, e := range All() {
		if e.Quick {
			quick[e.ID] = true
		}
	}
	for _, id := range []string{"table1", "table6", "ablate-tiling", "membound", "scaling-models"} {
		if !quick[id] {
			t.Errorf("%s should be Quick", id)
		}
	}
	if quick["table3"] || quick["fig1"] {
		t.Error("measured-sweep experiments must not be Quick")
	}
}

func TestResolve(t *testing.T) {
	if ids, err := Resolve("all"); err != nil || len(ids) != len(IDs()) {
		t.Errorf("Resolve(all) = %v, %v", ids, err)
	}
	ids, err := Resolve("quick")
	if err != nil || len(ids) == 0 {
		t.Fatalf("Resolve(quick) = %v, %v", ids, err)
	}
	for _, id := range ids {
		e, _ := Lookup(id)
		if !e.Quick {
			t.Errorf("Resolve(quick) returned non-quick %s", id)
		}
	}
	ids, err = Resolve("group:faults")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ids, " ") != "ckpt-interval crash-restart fault-sweep jobstream-faults recovered-sweep" {
		t.Errorf("Resolve(group:faults) = %v", ids)
	}
	if ids, err := Resolve("table3"); err != nil || len(ids) != 1 || ids[0] != "table3" {
		t.Errorf("Resolve(table3) = %v, %v", ids, err)
	}
	for _, bad := range []string{"nope", "group:nope", ""} {
		if _, err := Resolve(bad); err == nil {
			t.Errorf("Resolve(%q) accepted", bad)
		}
	}
}

func TestRegisterPanicsOnBadRegistration(t *testing.T) {
	mustPanic := func(name string, e Experiment) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(e)
	}
	run := func(ctx context.Context, s *Suite) ([]Renderable, error) { return nil, nil }
	mustPanic("empty id", Experiment{About: "x", Group: GroupPaper, Run: run})
	mustPanic("nil run", Experiment{ID: "zz-test", About: "x", Group: GroupPaper})
	mustPanic("no group", Experiment{ID: "zz-test", About: "x", Run: run})
	mustPanic("duplicate", Experiment{ID: "table1", About: "x", Group: GroupPaper, Run: run})
}

func TestLookupMatchesAll(t *testing.T) {
	if len(All()) != len(IDs()) {
		t.Fatalf("All() has %d entries, want %d", len(All()), len(IDs()))
	}
	for _, id := range IDs() {
		e, ok := Lookup(id)
		if !ok {
			t.Errorf("Lookup(%s) missing", id)
		} else if e.ID != id {
			t.Errorf("Lookup(%s) returned %s", id, e.ID)
		}
	}
	s := quickSuite(t)
	outcomes, err := RunSelected(context.Background(), s, []string{"table1"}, runner.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs := Flatten(outcomes)
	if len(rs) != 1 || !strings.Contains(rs[0].String(), "Marked speed") {
		t.Errorf("RunSelected(table1) = %v", rs)
	}
}
