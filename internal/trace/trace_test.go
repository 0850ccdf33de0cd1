package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindStringsAndGlyphs(t *testing.T) {
	kinds := []Kind{KindCompute, KindSend, KindRecv, KindWait, KindBcast, KindBarrier}
	seenName := map[string]bool{}
	seenGlyph := map[byte]bool{}
	for _, k := range kinds {
		n := k.String()
		if n == "" || seenName[n] {
			t.Errorf("bad/duplicate kind name %q", n)
		}
		seenName[n] = true
		g := k.glyph()
		if g == ' ' || seenGlyph[g] {
			t.Errorf("bad/duplicate glyph %q", g)
		}
		seenGlyph[g] = true
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
	if Kind(99).glyph() != '?' {
		t.Error("unknown kind glyph")
	}
}

func TestAddDropsEmptySpans(t *testing.T) {
	tr := New()
	tr.Add(Span{Rank: 0, StartMS: 5, EndMS: 5})
	tr.Add(Span{Rank: 0, StartMS: 5, EndMS: 4})
	if len(tr.Spans()) != 0 {
		t.Errorf("empty spans recorded: %v", tr.Spans())
	}
}

func TestSpansSortedDeterministically(t *testing.T) {
	tr := New()
	tr.Add(Span{Rank: 1, Kind: KindCompute, StartMS: 0, EndMS: 1})
	tr.Add(Span{Rank: 0, Kind: KindSend, StartMS: 2, EndMS: 3})
	tr.Add(Span{Rank: 0, Kind: KindCompute, StartMS: 0, EndMS: 2})
	got := tr.Spans()
	if got[0].Rank != 0 || got[0].Kind != KindCompute || got[2].Rank != 1 {
		t.Errorf("spans not sorted: %+v", got)
	}
}

func TestBreakdownsAndOverhead(t *testing.T) {
	tr := New()
	// rank 0: 8 compute + 2 comm (ends at 10)
	tr.Add(Span{Rank: 0, Kind: KindCompute, StartMS: 0, EndMS: 8})
	tr.Add(Span{Rank: 0, Kind: KindSend, StartMS: 8, EndMS: 10})
	// rank 1: 4 compute + 3 wait + 1 barrier, ends at 8 -> idle 2
	tr.Add(Span{Rank: 1, Kind: KindCompute, StartMS: 0, EndMS: 4})
	tr.Add(Span{Rank: 1, Kind: KindWait, StartMS: 4, EndMS: 7})
	tr.Add(Span{Rank: 1, Kind: KindBarrier, StartMS: 7, EndMS: 8})
	bds := tr.Breakdowns()
	if len(bds) != 2 {
		t.Fatalf("breakdowns: %+v", bds)
	}
	b0, b1 := bds[0], bds[1]
	if b0.ComputeMS != 8 || b0.CommMS != 2 || b0.IdleMS != 0 {
		t.Errorf("rank0 breakdown %+v", b0)
	}
	if b1.ComputeMS != 4 || b1.WaitMS != 3 || b1.CommMS != 1 || b1.IdleMS != 2 {
		t.Errorf("rank1 breakdown %+v", b1)
	}
	// Critical overhead = max over ranks of comm+wait+idle = rank1: 3+1+2=6.
	if got := tr.CriticalOverhead(); got != 6 {
		t.Errorf("CriticalOverhead = %g, want 6", got)
	}
	if tr.Makespan() != 10 {
		t.Errorf("Makespan = %g", tr.Makespan())
	}
}

func TestGanttRendering(t *testing.T) {
	tr := New()
	tr.Add(Span{Rank: 0, Kind: KindCompute, StartMS: 0, EndMS: 5})
	tr.Add(Span{Rank: 1, Kind: KindWait, StartMS: 0, EndMS: 2})
	tr.Add(Span{Rank: 1, Kind: KindBarrier, StartMS: 2, EndMS: 5})
	out := tr.Gantt(40)
	if !strings.Contains(out, "rank  0 |") || !strings.Contains(out, "rank  1 |") {
		t.Errorf("Gantt rows missing:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") || !strings.Contains(out, "|") {
		t.Errorf("Gantt glyphs missing:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Error("legend missing")
	}
	// Empty and degenerate traces render placeholders.
	if got := New().Gantt(40); !strings.Contains(got, "empty") {
		t.Errorf("empty trace: %q", got)
	}
}

// Property: breakdown components are non-negative and never exceed the
// makespan for arbitrary well-formed spans.
func TestBreakdownInvariantsQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := New()
		for i := 0; i+2 < len(raw); i += 3 {
			rank := int(raw[i] % 4)
			start := float64(raw[i+1] % 1000)
			dur := float64(raw[i+2]%100) + 1
			kind := Kind(raw[i] % 7)
			tr.Add(Span{Rank: rank, Kind: kind, StartMS: start, EndMS: start + dur})
		}
		mk := tr.Makespan()
		for _, b := range tr.Breakdowns() {
			if b.ComputeMS < 0 || b.CommMS < 0 || b.WaitMS < 0 || b.IdleMS < 0 {
				return false
			}
			if b.EndMS > mk+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New()
	tr.Add(Span{Rank: 0, Kind: KindCompute, StartMS: 0, EndMS: 5})
	tr.Add(Span{Rank: 1, Kind: KindSend, StartMS: 1, EndMS: 2, Bytes: 800, Peer: 0})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.DisplayUnit != "ms" {
		t.Fatalf("doc: %+v", doc)
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "send" || ev.Ph != "X" || ev.Ts != 1000 || ev.Dur != 1000 || ev.Tid != 1 {
		t.Errorf("send event: %+v", ev)
	}
	if ev.Args["bytes"] != "800" || ev.Args["peer"] != "rank 0" {
		t.Errorf("send args: %v", ev.Args)
	}
}
